"""Golden reports: the stdout JSON of a few small CLI runs, pinned by sha256.

The table and monotonicity digests were taken before the exact layer moved
to integer exponent arrays, and the sandwich one before the two Monte Carlo
loops became one chunk-parallel kernel.  The tower, horizontal and race
digests were re-taken when the Fourier engine moved from QUADPACK to the
Gauss-Legendre grid, and again when every inversion moved onto one
spectral table of power sums per call; each time delta_fourier, its
budget and (the second time) the tower's bias_factor moved in their last
bits, with the fields printed from them.  The flags and a race config file
naming every one of run_race's arguments must give that same race report.
So a refactor of the mean/weight engine, the Monte Carlo kernel or the
Fourier grid that changes any integer, float or key of these reports fails
here.  Regenerate a digest only for a change that is meant to alter the
report, and say so where the change is recorded.

The esp-q table at n = 8 (6126 rows, the benchmark's size) was pinned
before the mean table became a per-class pass and the JSON writer a C
encoder call per container of leaves.  The tower reports at n = 7 (595
rows each, the benchmark's size) were pinned before the tower's weights
became one batch over all its pairs.
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
    (["tower", "--family", "quaternion", "--n", "5", "--w", "-1", "--seed", "0"],
     "e2d515dea9c65d1af12c0c165cee00d8cc3149fa34b309f62d022c07650cf209"),
    (["tower", "--family", "dihedral", "--n", "5", "--seed", "0"],
     "3fb202218656f62abff9b3bf9263e1b34b8788d6cc571daad552365be7775653"),
    (["tower", "--family", "quaternion", "--n", "7", "--w", "-1", "--seed", "0"],
     "6c7d09fb1e9004823b815ef4905cf59554a77fafe4d32d189fd118c9f3fab6c4"),
    (["tower", "--family", "dihedral", "--n", "7", "--seed", "0"],
     "b7ec74f2c4d821096510f642512d200d560e817fdeecde7c694bea25a4a4ca32"),
    (["monotonicity", "--family", "quaternion", "--n", "6", "--w", "-1",
      "--samples", "2000", "--seed", "0"],
     "58d59070af359b2919977c19de36e98da52c309189166dffe0b43fd4ce98979c"),
    (["sandwich", "--count", "2", "--samples", "10000", "--seed", "0"],
     "79e65141cd4af191fba33055b368ee5af5a0ad030070110b3c04acda7d6f7063"),
    (["horizontal", "--f-values", "1,2", "--samples", "10000", "--seed", "0"],
     "ad5fc1c2c803ce73bbcc0eca034fcbd32964ccf9c7cbd12e44e40235d44380f0"),
    (["race", "--n", "4", "--samples", "10000", "--seed", "0"],
     "c8f4a46bcfb5d64c05f28584c438e129e6eb86582895cd79e12ea4d7fd96dcfc"),
]

# the race flags above as a config file, with every default spelled out
RACE_CONFIG = {"family": "quaternion", "n": 4, "w_axiom": -1, "level": None,
               "pairs": [], "seed": 0, "samples": 10000, "fourier_nodes": 2000,
               "zero_files": [], "min_zeros": 64}


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(argv, digest, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_race_config_digest(tmp_path, capsys):
    assert sorted(RACE_CONFIG) == sorted(cli.RACE_CONFIG_KEYS)
    path = tmp_path / "race.json"
    path.write_text(json.dumps(RACE_CONFIG))
    assert cli.main(["race", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[-1][1]
