"""Golden reports: the stdout JSON of a few small CLI runs, pinned by sha256.

The table and monotonicity digests were taken before the exact layer moved
to integer exponent arrays, and the sandwich one before the two Monte Carlo
loops became one chunk-parallel kernel.  The tower, horizontal and race
digests were re-taken when the Fourier engine moved from QUADPACK to the
Gauss-Legendre grid, and again when every inversion moved onto one
spectral table of power sums per call; each time delta_fourier, its
budget and (the second time) the tower's bias_factor moved in their last
bits, with the fields printed from them.  The race, horizontal, sandwich
and monotonicity digests were re-taken when every race became a row of
scales over a spectral table: the variance and every field computed from
it (bias_factor, noise_variance, the CLT and tail bounds, the truncation
bound, and the race and horizontal delta_fourier with its budget) moved
in their last bits; the Monte Carlo fields did not.  The monotonicity
digest was re-taken once more when ``race_model`` put its components in
``character_ids`` order, the tower's, rather than in sorted id order
(psi_1, psi_10, psi_11, ..., psi_2): the variance is summed over the
components, so noise_variance moved by 1 ulp (667.7101836016769 ->
667.710183601677); no other field moved, and no other digest here.  The
flags and a race config file naming every one of run_race's arguments must
give that same race report.
The monotonicity, sandwich, horizontal and both race digests (and so the
race config digest) were re-taken when the Monte Carlo kernel took its
uniforms k 2^-32 from the 32-bit halves of raw generator words rather
than from float64 draws: the noise changed, so every Monte Carlo field
moved (delta_mc, its interval, one_minus_delta_mc, abs_bias_gap_mc, the
monotonicity levels, pairs and series) with the inequality strings
printed from them; no other field moved, and no verdict or flag.
So a refactor of the mean/weight engine, the Monte Carlo kernel or the
Fourier grid that changes any integer, float or key of these reports fails
here.  Regenerate a digest only for a change that is meant to alter the
report, and say so where the change is recorded.

The esp-q table at n = 8 (6126 rows, the benchmark's size) was pinned
before the mean table became a per-class pass and the JSON writer a C
encoder call per container of leaves.  The esp-d table at n = 8 (the
benchmark's second table) and the h8 table (whose rows hold dicts, so
the writer walks them) were pinned before the writer encoded lists of
flat rows column by column.  The tower reports at n = 7 (595
rows each, the benchmark's size) were pinned before the tower's weights
became one batch over all its pairs, and those at n = 8 (2211 rows, 628
inversions, 66 of them on two panels against 34 at n = 7) before a tower
call's Fourier inversions became one batched pass.  The race at n = 5 over
three pairs that weight different characters (the odd psi_j for the
first, chi1, chi3 and seven or six psi_j for the others) was pinned while each pair
sampled its own zero sets, before a race call sampled the union of its
pairs' characters once into one spectral table.  The mod4 reports at
t_max = 3, 8 and 40 take the Fourier engine's few-term paths: every one
redoes the tail search over the whole grid, the one zero below 3 is a
row of fewer than 3 terms, and the four below 8 fall back to the grid
point of least tail plus quadrature bound.  They were pinned before the
tail search sorted its own padded blocks and the table's power sums
became one memo.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from chebrace import cli

GOLDEN = [
    (["table", "--id", "esp-q", "--n", "6"],
     "f0dbbb6147603d84c216626395c499d45f46e79fe9188f2acb35586050b1e0bd"),
    (["table", "--id", "esp-q", "--n", "8"],
     "62296eb6ab7bfc38deddada0dc0297f57c7b057b4b2925cb208f0aee08c14c1f"),
    (["table", "--id", "esp-d", "--n", "6"],
     "bced34938a12446b28b5c33bd6aa7340f28a739a0fdf4be20cdf6a0f70ef574a"),
    (["table", "--id", "esp-d", "--n", "8"],
     "cc384abd5ba5f2b2224f066eae29067e37cf4d0b0760cfd9814e278a4a96e375"),
    (["table", "--id", "h8"],
     "027d5d108ccb1417ed784634217d11bf61ef0f160f42d6eb5926a795ad9915e4"),
    (["tower", "--family", "quaternion", "--n", "5", "--w", "-1", "--seed", "0"],
     "e2d515dea9c65d1af12c0c165cee00d8cc3149fa34b309f62d022c07650cf209"),
    (["tower", "--family", "dihedral", "--n", "5", "--seed", "0"],
     "3fb202218656f62abff9b3bf9263e1b34b8788d6cc571daad552365be7775653"),
    (["tower", "--family", "quaternion", "--n", "7", "--w", "-1", "--seed", "0"],
     "6c7d09fb1e9004823b815ef4905cf59554a77fafe4d32d189fd118c9f3fab6c4"),
    (["tower", "--family", "dihedral", "--n", "7", "--seed", "0"],
     "b7ec74f2c4d821096510f642512d200d560e817fdeecde7c694bea25a4a4ca32"),
    (["tower", "--family", "quaternion", "--n", "8", "--w", "-1", "--seed", "0"],
     "786a73d43d1ab0c9669e03ca1b4f82d5fd37c2225480f75eb7380baf923ce538"),
    (["tower", "--family", "dihedral", "--n", "8", "--seed", "0"],
     "04b7836b7a6dd9e715e96a7c3f0172f0767bc81c12ec26e16fbd68725a35f58e"),
    (["monotonicity", "--family", "quaternion", "--n", "6", "--w", "-1",
      "--samples", "2000", "--seed", "0"],
     "4debde30ce6c973f0d2b493fb79aab515fb05869b7e50ead335cecd97bccf351"),
    (["sandwich", "--count", "2", "--samples", "10000", "--seed", "0"],
     "7fb0da1c23f4ad3de50f41673989eeacb927cd84b5b23b9c2e30cb96f1705b0f"),
    (["horizontal", "--f-values", "1,2", "--samples", "10000", "--seed", "0"],
     "d69d164c6dbf87f3b237f17b0aa6b4df0e5004dcc0b046e9fa0ca97acb0a9832"),
    (["race", "--n", "5", "--samples", "10000", "--seed", "0", "--pair", "one:minus_one",
      "--pair", "one:flip_even", "--pair", "power(1):flip_odd"],
     "fdcdfc9f9d694344a9da3a14b9acf0cef1a0d6d28a678b0bc5796d08e1b75210"),
    (["mod4", "--t-max", "3"],
     "5eb89f9a0d90229e7d3d6e02f7960014c94f766f17b0f5d62cda367d1b90e414"),
    (["mod4", "--t-max", "8"],
     "cc5bbaada21372f0fb75269237a317a734a9a64a1217e1e8b5d6a738b6803773"),
    (["mod4", "--t-max", "40"],
     "550b2c9fbbbbb76f490ccd86b460ad4b527087c831b8a00593905a0eb35352f0"),
    (["race", "--n", "4", "--samples", "10000", "--seed", "0"],
     "e03892989fdb45aaba7c476662f125311eef121d00de51156db926aa078bd782"),
]

# the race flags above as a config file, with every default spelled out
RACE_CONFIG = {"family": "quaternion", "n": 4, "w_axiom": -1, "level": None,
               "pairs": [], "seed": 0, "samples": 10000, "zero_files": [],
               "min_zeros": 64}


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(argv, digest, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a sampled zero file and the check of it, pinned while ZeroSet held its
# ordinates as a tuple of Python floats
ZERO_FILE_ARGV = ["zeros", "gen", "--log-conductor", "3", "--t-max", "300",
                  "--seed", "7", "--character-id", "psi_1", "--out", "psi_1.txt"]
ZERO_FILE_DIGEST = "181959fd42560d606c8ced55b2d17da9167e1430e4b35f7a0d9a53798fd7ec6f"
ZERO_CHECK_DIGEST = "97ce56515a079346393b8df3a0277d382534168977caa0e69b8de314ff9512f7"


def test_zero_file_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the check prints the path it was given
    assert cli.main(ZERO_FILE_ARGV) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "psi_1.txt").read_bytes()).hexdigest() == \
        ZERO_FILE_DIGEST
    assert cli.main(["zeros", "check", "psi_1.txt"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ZERO_CHECK_DIGEST


def test_race_config_digest(tmp_path, capsys):
    assert sorted(RACE_CONFIG) == sorted(cli.RACE_CONFIG_KEYS)
    path = tmp_path / "race.json"
    path.write_text(json.dumps(RACE_CONFIG))
    assert cli.main(["race", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[-1][1]
