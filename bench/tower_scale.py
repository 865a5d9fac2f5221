"""Time and memory of `chebrace tower` as the tower grows.

    python3 bench/tower_scale.py [--n 7 8 9 10] [--out BENCH_tower.json]

Runs `tower --family F --n N --seed 0` (quaternion with `--w -1`) for both
families and each N, each call in a fresh interpreter, and writes one JSON
record per call:

* ``wall_s``: the child's wall time, interpreter start to exit;
* ``peak_rss_mb``: the child's peak resident set (``ru_maxrss`` of its own
  rusage, from ``os.wait4``);
* ``phases_s``: seconds inside the verb, split by the package functions the
  child wraps: ``zeros`` (``provision_zero_sets``), ``table``
  (``spectral_table``, where the package has it; its power sums are taken
  order by order inside the first inversions that need them),
  ``inversions`` (``density_fourier``, which includes each row's tail
  search), ``report`` (``report_json``) and ``verb`` (all of
  ``cli.main``).  A row's model is a row of scales over the table and
  has no phase of its own; older records carry a ``rows`` phase, which
  timed a per-row model assembly;
* ``report_sha256``: the digest of the report, to compare two checkouts.

The package is imported from ``src/`` beside this script, so the same
script measures any checkout it is copied into.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _argv(family: str, n: int) -> list[str]:
    w = ["--w", "-1"] if family == "quaternion" else []
    return ["tower", "--family", family, "--n", str(n), *w, "--seed", "0"]


def _child(argv: list[str]) -> None:
    """Run one verb call with the phase timers installed; print the
    record's phases and digest as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    from chebrace import cli, experiments

    phases = dict.fromkeys(("zeros", "table", "inversions", "report"), 0.0)

    def timed(module, name: str, phase: str) -> None:
        fn = getattr(module, name, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[phase] += time.perf_counter() - start

        setattr(module, name, wrapper)

    timed(experiments, "provision_zero_sets", "zeros")
    timed(experiments, "spectral_table", "table")
    timed(experiments, "density_fourier", "inversions")
    timed(cli, "report_json", "report")
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(argv)
    phases["verb"] = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    print(json.dumps({"phases_s": {k: round(v, 4) for k, v in phases.items()},
                      "report_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))


def _measure(argv: list[str]) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--child", *argv],
                            stdout=subprocess.PIPE, text=True)
    text = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} failed with exit code {proc.returncode}")
    record = json.loads(text)
    return {"argv": argv, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1), **record}


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2:])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[7, 8, 9, 10])
    parser.add_argument("--out", default=str(ROOT / "BENCH_tower.json"))
    args = parser.parse_args()
    runs = []
    for n in args.n:
        for family in ("quaternion", "dihedral"):
            runs.append(_measure(_argv(family, n)))
            print(json.dumps(runs[-1]), file=sys.stderr)
    report = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version(),
                       "load_average_at_end": os.getloadavg()},
              "runs": runs}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
