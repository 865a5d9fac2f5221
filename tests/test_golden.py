"""Golden reports: the stdout JSON of a few small CLI runs, pinned by sha256.

The table, tower and monotonicity digests were taken before the exact layer
moved to integer exponent arrays, the sandwich and horizontal ones before
the two Monte Carlo loops became one chunk-parallel kernel, and the race
one before the race config became run_race's keyword arguments: the flags
and a config file naming every one of them must give that same report.  So a refactor
of the mean/weight engine or of the Monte Carlo kernel that changes any
integer, float or key of these reports fails here.  Regenerate a digest only for a
change that is meant to alter the report, and say so where the change is
recorded.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from chebrace import cli

GOLDEN = [
    (["table", "--id", "esp-q", "--n", "6"],
     "f0dbbb6147603d84c216626395c499d45f46e79fe9188f2acb35586050b1e0bd"),
    (["table", "--id", "esp-d", "--n", "6"],
     "bced34938a12446b28b5c33bd6aa7340f28a739a0fdf4be20cdf6a0f70ef574a"),
    (["tower", "--family", "quaternion", "--n", "5", "--w", "-1", "--seed", "0"],
     "c51069af8e7077320f5023290e2ff23d2a61b8d1b59e92d66a827780c95c03ea"),
    (["tower", "--family", "dihedral", "--n", "5", "--seed", "0"],
     "c650545641372d132f201cb93e9b0ed6bf8c391f23d50af2e10de6a9be4ab1e7"),
    (["monotonicity", "--family", "quaternion", "--n", "6", "--w", "-1",
      "--samples", "2000", "--seed", "0"],
     "58d59070af359b2919977c19de36e98da52c309189166dffe0b43fd4ce98979c"),
    (["sandwich", "--count", "2", "--samples", "10000", "--seed", "0"],
     "79e65141cd4af191fba33055b368ee5af5a0ad030070110b3c04acda7d6f7063"),
    (["horizontal", "--f-values", "1,2", "--samples", "10000", "--seed", "0"],
     "1514f64f9cf10ddc4c69bd7c91fc077ada274235c9920b60293a0e9faf4cad72"),
    (["race", "--n", "4", "--samples", "10000", "--seed", "0"],
     "615b838c0d633cb8a859a67b90911d7eb61ab69c305f1543440863b0b339c520"),
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
