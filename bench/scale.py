"""Time and memory of `chebrace tower`, `table`, `monotonicity` or `race`
as the tower grows.

    python3 bench/scale.py {tower,table,monotonicity,race} [--n N ...] [--out BENCH_<verb>.json]

For each N, ``tower`` runs `tower --family F --n N --seed 0` for both
families (quaternion with `--w -1`), ``table`` runs `table --id T --n N`
for T = esp-q and esp-d, ``monotonicity`` runs `monotonicity --family
quaternion --n N --w -1 --seed 5 --samples 2`: one antithetic pair, so the
Monte Carlo is a small share and the exact layer, the zero provisioning
and the model assembly are the cost, and ``race`` runs `race --n N --pair
one:minus_one --samples 10000 --seed 0`, one quaternion W=-1 pair at the
top level, Monte Carlo included.  N defaults to 7 8 9 10 for ``tower`` and
``table``, to 12 14 16 18 for ``monotonicity`` and to 12 14 16 for
``race``.  Each call runs in a fresh interpreter, and the script writes one
JSON record per call:

* ``wall_s``: the child's wall time, interpreter start to exit;
* ``peak_rss_mb``: the child's peak resident set (``ru_maxrss`` of its own
  rusage, from ``os.wait4``);
* ``import_rss_mb``: the child's peak resident set once the package is
  imported, before ``cli.main`` runs; the verb's own data, and whatever
  it imports on first use, account for the rest of ``peak_rss_mb``;
* ``phases_s``: seconds inside the verb, split by the package functions the
  child wraps, and ``verb`` (all of ``cli.main``).  ``tower``: ``exact``
  (``level_races``, the call's race table with its means, and
  ``RaceTable.weights``, its pairs x characters weight rows; ``level_data``
  and ``pair_weights`` in checkouts from before the race table), ``zeros``
  (``provision_zero_sets``, which samples the zero sets and builds the
  call's ``SpectralTable`` from them; its sums are taken inside the first
  inversions that need them), ``inversions`` (``density_fourier_batch``,
  the call's one batch of inversions with their tail searches;
  ``density_fourier``, once per inversion, in checkouts from before the
  batch), three parts of it, ``t_max`` (``_t_max_and_tail``, the tail
  search), ``panels`` (``_panel_count``, the panel counts and their
  quadrature bounds) and ``grid`` (``_grid_integral``, the integrands at
  the nodes), and ``report`` (``report_json``).  Older tower records carry a
  ``table`` phase, which timed building the table from a list of zero
  sets, or a ``rows`` phase, which timed a per-row model assembly.
  ``table``: ``means`` (``mean_table``, one call per level and root
  number), ``rows`` (the rest of ``reproduce_table``: the report rows) and
  ``report``.  ``monotonicity``: ``means`` (``race_table``, once per
  level; ``mean`` in checkouts from before the race table),
  ``zeros`` (``provision_zero_sets``), ``model`` (``race_model`` and the
  first read of ``RaceModel.terms``, which lists the amplitudes), ``mc``
  (``_mc_race``, the shared Monte Carlo draw) and ``report``.  ``race``:
  ``means`` (``race_table``, or ``mean``), ``zeros``
  (``provision_zero_sets``), ``model``
  (``race_model`` and ``RaceModel.terms``), ``fourier``
  (``density_fourier``), ``mc`` (``density_montecarlo``) and ``report``;
* ``inversions`` (``tower`` only): how many races of nonzero mean the
  call inverted, one per distinct (|mean|, weight row);
* ``i0e_values`` (``tower`` only): how many values the call handed the
  panel bound's exp(-x) I0(x) kernel (``density._i0e``);
* ``report_sha256``: the digest of the report, to compare two checkouts.

The package is imported from ``src/`` beside this script, so the same
script measures any checkout it is copied into.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per verb, the timed package functions as (module, names, phase), in the
# order the record lists the phases; each entry times the first of its
# names that the checkout has (a dotted name is an attribute of a class, a
# cached property timed on its first read), a checkout with none of them
# is an error, and a phase sums its entries
PHASES = {
    "tower": (("experiments", ("level_races", "level_data"), "exact"),
              ("experiments", ("RaceTable.weights", "pair_weights"), "exact"),
              ("experiments", ("provision_zero_sets",), "zeros"),
              ("experiments", ("density_fourier_batch", "density_fourier"), "inversions"),
              ("density", ("_t_max_and_tail",), "t_max"),
              ("density", ("_panel_count",), "panels"),
              ("density", ("_grid_integral",), "grid"),
              ("cli", ("report_json",), "report")),
    "table": (("experiments", ("mean_table",), "means"),
              ("cli", ("reproduce_table",), "rows"),
              ("cli", ("report_json",), "report")),
    "monotonicity": (("experiments", ("race_table", "mean"), "means"),
                     ("experiments", ("provision_zero_sets",), "zeros"),
                     ("experiments", ("race_model",), "model"),
                     ("density", ("RaceModel.terms",), "model"),
                     ("experiments", ("_mc_race",), "mc"),
                     ("cli", ("report_json",), "report")),
    "race": (("experiments", ("race_table", "mean"), "means"),
             ("experiments", ("provision_zero_sets",), "zeros"),
             ("experiments", ("race_model",), "model"),
             ("density", ("RaceModel.terms",), "model"),
             ("experiments", ("density_fourier",), "fourier"),
             ("experiments", ("density_montecarlo",), "mc"),
             ("cli", ("report_json",), "report")),
}
DEFAULT_N = {"tower": [7, 8, 9, 10], "table": [7, 8, 9, 10],
             "monotonicity": [12, 14, 16, 18], "race": [12, 14, 16]}


def _argvs(verb: str, n: int) -> list[list[str]]:
    if verb == "tower":
        return [["tower", "--family", "quaternion", "--n", str(n), "--w", "-1",
                 "--seed", "0"],
                ["tower", "--family", "dihedral", "--n", str(n), "--seed", "0"]]
    if verb == "monotonicity":
        return [["monotonicity", "--family", "quaternion", "--n", str(n),
                 "--w", "-1", "--seed", "5", "--samples", "2"]]
    if verb == "race":
        return [["race", "--n", str(n), "--pair", "one:minus_one",
                 "--samples", "10000", "--seed", "0"]]
    return [["table", "--id", table_id, "--n", str(n)]
            for table_id in ("esp-q", "esp-d")]


def _child(argv: list[str]) -> None:
    """Run one verb call with the phase timers installed; print the
    record's import memory, phases and digest as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    from chebrace import cli, density, experiments

    import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    modules = {"cli": cli, "density": density, "experiments": experiments}
    phases = {}
    inverted = []
    i0e_values = [0]
    i0e = getattr(density, "_i0e", None)  # scipy's, in checkouts from before it

    def counted_i0e(x):
        i0e_values[0] += x.size
        return i0e(x)

    if i0e is not None:
        density._i0e = counted_i0e

    def count(name: str, args) -> None:
        """Races of nonzero mean handed to the inversions."""
        if name == "density_fourier_batch":
            inverted.extend(mean for _, mean in args[2] if mean)
        elif name == "density_fourier" and args[0].mean:
            inverted.append(args[0].mean)

    def timed(module, names: tuple[str, ...], phase: str) -> None:
        for name in names:
            owner, _, attr = name.rpartition(".")
            owner = getattr(module, owner, None) if owner else module
            if hasattr(owner, attr):
                break
        else:
            raise SystemExit(f"{module.__name__} has none of {names}: the "
                             f"{phase} phase would read 0")
        fn = getattr(owner, attr)
        prop = fn if isinstance(fn, functools.cached_property) else None
        if prop is not None:
            fn = prop.func

        def wrapper(*args, **kwargs):
            count(name, args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[phase] += time.perf_counter() - start

        if prop is not None:
            wrapper = functools.cached_property(wrapper)
            wrapper.__set_name__(owner, attr)
        setattr(owner, attr, wrapper)

    for module, names, phase in PHASES[argv[0]]:
        phases.setdefault(phase, 0.0)
        timed(modules[module], names, phase)
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(argv)
    phases["verb"] = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    if argv[0] == "table":  # reproduce_table's time includes mean_table's
        phases["rows"] -= phases["means"]
    record = {"import_rss_mb": round(import_rss_mb, 1),
              "phases_s": {k: round(v, 4) for k, v in phases.items()}}
    if argv[0] == "tower":
        record["inversions"] = len(inverted)
        record["i0e_values"] = i0e_values[0] if i0e is not None else None
    record["report_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(json.dumps(record))


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
    parser.add_argument("verb", choices=tuple(PHASES))
    parser.add_argument("--n", type=int, nargs="+",
                        help="default: 7 8 9 10, 12 14 16 18 for monotonicity, "
                             "12 14 16 for race")
    parser.add_argument("--out", help="default: BENCH_<verb>.json at the repo root")
    args = parser.parse_args()
    runs = []
    for n in args.n or DEFAULT_N[args.verb]:
        for argv in _argvs(args.verb, n):
            runs.append(_measure(argv))
            print(json.dumps(runs[-1]), file=sys.stderr)
    report = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version(),
                       "load_average_at_end": os.getloadavg()},
              "runs": runs}
    out = args.out or ROOT / f"BENCH_{args.verb}.json"
    Path(out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
