"""chebrace benchmark: CLI workloads, end-to-end verb metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload tower --seed 0 --seconds 20 --trace 0

Each workload (see workloads.py) runs in this one process through the real
entry point ``chebrace.cli.main(argv)``: a closed loop with one client that
repeats the workload's round of verb calls until ``--seconds`` have passed,
and checks every report (see checks.py).  BLAS/OpenMP threads are capped at
the number of usable CPUs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced (see tracing.py) and prints the per-layer
metrics, per round, with the tracing overhead.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it give the environment and every metric by name and unit, and a full
record (calls, environment, spans) goes to ``.perfbench-out/``.

Seeds: claims are measured with DEFAULT_SEED (0) and confirmed with
HELD_OUT_SEED (1).  The pinned values the check compares against are in
reference.json (regenerate with ``perfbench/pin.py``).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_report, err_max
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPUs; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = current if current.isdigit() and 0 < int(current) <= cap \
            else str(cap)
    return cap


class Calibration:
    """Machine-speed probe run around every verb call.

    Wall time on a shared host drifts by 15-30% between runs as other
    tenants load the machine.  Three fixed kernels that no program change
    touches (Python object churn, cache-resident numpy, memory-bound numpy)
    are timed before and after each call; the call's wall time is scaled by
    REFERENCE_S over the geometric mean of their times, which removes most of
    that drift.  Raw wall times are kept in the record.
    """

    # geometric mean of the three kernel times on the reference host
    # (2-vCPU Xeon KVM guest, Python 3.11, numpy 2.4)
    REFERENCE_S = 0.035

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = (rng.random((64, 2000)), rng.random(2000))
        # 4 MB: past the per-core caches, small enough to stay under every
        # workload's own peak memory
        self._big = (rng.random((512, 1024)), rng.random(1024))

    def _py(self) -> int:
        d: dict[int, int] = {}
        for i in range(60000):
            k = (i * 7) % 1021
            d[k] = d.get(k, 0) + i
            tuple(sorted((k, i % 13)))
        return len(d)

    def _numpy(self, pair, reps: int) -> float:
        a, v = pair
        return sum(float((self._np.cos(2.0 * self._np.pi * a) @ v).sum())
                   for _ in range(reps))

    def probe(self) -> float:
        """Geometric mean of the kernels' wall times, in seconds."""
        product = 1.0
        for kernel in (self._py, lambda: self._numpy(self._small, 10),
                       lambda: self._numpy(self._big, 4)):
            t0 = time.perf_counter()
            kernel()
            product *= time.perf_counter() - t0
        return product ** (1.0 / 3.0)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup(runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter until chebrace.cli is
    imported and a verb call could be timed, once per run.  One untimed
    start first writes the bytecode caches."""
    code = "import sys, chebrace.cli; sys.stdout.write('r'); sys.stdout.flush()"
    times = []
    for k in range(runs + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=_child_env(),
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            ready = proc.stdout.read(1)
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or ready != b"r":
                raise RuntimeError("importing chebrace.cli failed")
        if k:
            times.append(t1 - t0)
    return times


def environment(args, cap: int, first_round) -> dict:
    import numpy
    import scipy

    git_rev = None
    if (ROOT / ".git").exists():  # never ask a repository above the checkout
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "chebrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "usable_cpus": cap,
        "blas_thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_revision": git_rev, "source_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "argv_first_round": [" ".join(a) for _, a in first_round],
    }


class Loop:
    """Closed loop with one client: whole rounds of verb calls, each timed
    and checked."""

    def __init__(self, cli, workload, seed: int, toy: bool, reference) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.rounds = 0
        self.reference = reference
        self.calls: list[dict] = []
        self.calibration = Calibration()
        self._probe = self.calibration.probe()

    def call(self, key: str, argv: list[str], tracer) -> dict:
        buf = io.StringIO()
        if tracer is not None:
            tracer.begin_call(len(self.calls))
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        except Exception:  # one failed call must not end the run
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_call()
        before, self._probe = self._probe, self.calibration.probe()
        probe = (before + self._probe) / 2.0
        rec = {"key": key, "argv": " ".join(argv), "wall_s": wall, "probe_s": probe,
               "seconds": wall * Calibration.REFERENCE_S / probe, "rc": rc,
               "units": 0, "rows": 0, "err_max": None, "problems": []}
        if rc != 0:
            rec["problems"].append(f"exit code {rc}")
        else:
            try:
                report = json.loads(buf.getvalue())
                rec["problems"] = check_report(argv, report, self.reference)
                rec["units"] = self.workload.units(report)
                rec["rows"] = len(report.get("rows") or report.get("levels") or ())
                rec["err_max"] = err_max(argv[0], report)
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                rec["problems"].append(f"report unreadable: {exc!r}")
        rec["ok"] = not rec["problems"]
        for p in rec["problems"]:
            print(f"check failed: {rec['argv']}: {p}", file=sys.stderr)
        self.calls.append(rec)
        return rec

    def run(self, seconds: float, tracer=None) -> list[dict]:
        """Rounds until `seconds` have passed (the last round completes)."""
        first = len(self.calls)
        t0 = time.perf_counter()
        while True:
            for key, argv in self.workload.round(self.seed, self.toy, self.rounds):
                self.call(key, argv, tracer)
            self.rounds += 1
            if time.perf_counter() - t0 >= seconds:
                return self.calls[first:]


def report_s(calls: list[dict], field: str = "seconds") -> float:
    """Mean over the workload's verbs of each verb's median call time."""
    by_key: dict[str, list[float]] = {}
    for c in calls:
        by_key.setdefault(c["key"], []).append(c[field])
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def tail(calls: list[dict]) -> str:
    """The highest percentile with at least ten samples beyond it, per verb."""
    parts = []
    for key in dict.fromkeys(c["key"] for c in calls):
        xs = sorted(c["seconds"] for c in calls if c["key"] == key)
        if len(xs) < 11:
            parts.append(f"{key}: n/a (N={len(xs)} < 11)")
        else:
            parts.append(f"{key}: p{100 * (len(xs) - 10) / len(xs):.0f}="
                         f"{xs[-11]:.4f}s (N={len(xs)})")
    return "; ".join(parts)


def end_to_end(calls: list[dict], setup: list[float]) -> dict:
    busy = sum(c["seconds"] for c in calls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "report_s": (report_s(calls), "s"),
        "units_per_s": (sum(c["units"] for c in calls) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans: dict, counts, calls: list[dict], rounds: int,
              overhead: float) -> dict:
    """Per-layer metrics of the traced phase: counts and busy/self times per
    round (one call of each verb in the workload); ratios, delta_err_max and
    the tracing overhead over the whole phase."""

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rows = sum(c["rows"] for c in calls)
    fourier_calls = span("density.density_fourier", "calls")
    mc_busy = span("density.density_montecarlo", "busy_s")
    errs = [c["err_max"] for c in calls if c["err_max"] is not None]
    total = {
        "cyclotomic.values_built": (counts["cyclotomic.values_built"], "count"),
        "cyclotomic.ops": (counts["cyclotomic.ops"], "count"),
        "groups.calls": (span("groups", "calls"), "count"),
        "groups.busy_s": (span("groups", "busy_s"), "s"),
        "characters.character_value.calls": (span("characters.character_value", "calls"), "count"),
        "characters.character_value.busy_s": (span("characters.character_value", "busy_s"), "s"),
        "characters.induce.calls": (span("characters.induce", "calls"), "count"),
        "characters.induce.busy_s": (span("characters.induce", "busy_s"), "s"),
        "characters.sr_partition.calls": (span("characters.sr_partition", "calls"), "count"),
        "characters.self_s": (span("characters", "self_s"), "s"),
        "arithmetic.calls": (span("arithmetic", "calls"), "count"),
        "arithmetic.busy_s": (span("arithmetic", "busy_s"), "s"),
        "zeros.sample_zero_set.calls": (span("zeros.sample_zero_set", "calls"), "count"),
        "zeros.sample_zero_set.busy_s": (span("zeros.sample_zero_set", "busy_s"), "s"),
        "zeros.ordinates": (counts["zeros.ordinates"], "count"),
    }
    for fn in ("mean", "weights", "level_orders", "term_list", "mean_table"):
        total[f"races.{fn}.calls"] = (span(f"races.{fn}", "calls"), "count")
        total[f"races.{fn}.busy_s"] = (span(f"races.{fn}", "busy_s"), "s")
    total.update({
        "races.terms": (counts["races.terms"], "count"),
        "races.self_s": (span("races", "self_s"), "s"),
        "density.fourier.calls": (fourier_calls, "count"),
        "density.fourier.busy_s": (span("density.density_fourier", "busy_s"), "s"),
        "density.fourier.integrand_evals": (counts["density.fourier.integrand_evals"], "count"),
        "density.mc.calls": (span("density.density_montecarlo", "calls"), "count"),
        "density.mc.busy_s": (mc_busy, "s"),
        "density.mc.pairs": (counts["density.mc.pairs"], "count"),
        "density.mc.cos_evals": (counts["density.mc.cos_evals"], "count"),
        "experiments.self_s": (span("experiments", "self_s"), "s"),
        "experiments.shared_mc.cos_evals": (counts["experiments.shared_mc.cos_evals"], "count"),
        "experiments.provision_zero_sets.busy_s": (
            span("experiments.provision_zero_sets", "busy_s"), "s"),
        "cli.report_json.busy_s": (span("cli.report_json", "busy_s"), "s"),
        "cli.report_bytes": (counts["cli.report_bytes"], "bytes"),
        "cli.self_s": (span("cli", "self_s"), "s"),
    })
    out = {name: (value / rounds, unit) for name, (value, unit) in total.items()}
    out.update({
        "races.weights.calls_per_row": (ratio(span("races.weights", "calls"), rows), "ratio"),
        "races.level_orders.calls_per_level": (
            ratio(span("races.level_orders", "calls"), counts["races.levels"]), "ratio"),
        "density.fourier.evals_per_call": (
            ratio(counts["density.fourier.integrand_evals"], fourier_calls), "ratio"),
        "density.fourier.reported_nodes_per_call": (
            ratio(counts["density.fourier.reported_nodes"], fourier_calls), "ratio"),
        "density.mc.ns_per_cos": (ratio(mc_busy * 1e9, counts["density.mc.cos_evals"]), "ns"),
        "delta_err_max": (max(errs) if errs else 0.0, "prob"),
        "trace.overhead_s": (overhead, "s"),
    })
    return out


def layer_shares(spans: dict, total: float) -> dict[str, float]:
    """Share of traced verb time spent in each layer's own code, and inside
    each of the two density engines."""
    shares = {layer: spans[layer]["self_s"] / total
              for layer in ("groups", "characters", "arithmetic", "zeros",
                            "races", "density", "experiments", "cli")
              if layer in spans}
    for name, span in (("density.fourier", "density.density_fourier"),
                       ("density.mc", "density.density_montecarlo")):
        shares[name] = spans.get(span, {}).get("busy_s", 0.0) / total
    return shares


# Predictions of where each workload spends its time.
PREDICTIONS = {
    "tables": ("exact layers (groups+characters+arithmetic+races) >= 90%",
               lambda s: s.get("groups", 0) + s.get("characters", 0)
               + s.get("arithmetic", 0) + s.get("races", 0) >= 0.90),
    "tower": ("races+characters > 50% and density.fourier visible (>= 5%)",
              lambda s: s.get("races", 0) + s.get("characters", 0) > 0.5
              and s["density.fourier"] >= 0.05),
    "sandwich": ("density.mc >= 90%", lambda s: s["density.mc"] >= 0.90),
    "monotonicity": ("experiments self time > 50%",
                     lambda s: s.get("experiments", 0) > 0.5),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "chebrace" / "cli.py").is_file():
        print(f"error: no chebrace package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    cap = _cap_threads()
    first_round = workload.round(args.seed, args.toy, 0)
    setup = measure_setup(SETUP_RUNS) if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    from chebrace import cli

    reference = json.loads((HERE / "reference.json").read_text())
    env = environment(args, cap, first_round)
    loop = Loop(cli, workload, args.seed, args.toy, reference)
    record = {"environment": env}
    if args.trace == 0:
        calls = loop.run(args.seconds)
        metrics = end_to_end(calls, setup)
        record["setup_s"] = setup
    else:
        plain = loop.run(args.seconds / 2)
        plain_rounds = loop.rounds
        tracer = Tracer()
        tracer.install()
        try:
            calls = loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        rounds = loop.rounds - plain_rounds
        overhead = report_s(calls) - report_s(plain)
        spans = tracer.spans_by_name()
        metrics = per_layer(spans, tracer.counts, calls, rounds, overhead)
        shares = layer_shares(spans, tracer.root_busy_s())
        claim, holds = PREDICTIONS[workload.name]
        record.update(layer_shares=shares, prediction=claim,
                      prediction_met=holds(shares), traced_rounds=rounds,
                      report_s_untraced=report_s(plain),
                      report_s_traced=report_s(calls))
    attempted = len(loop.calls)
    failed = sum(not c["ok"] for c in loop.calls)
    errs = [c["err_max"] for c in loop.calls if c["err_max"] is not None]

    print(json.dumps({"environment": env}, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} verb calls in {loop.rounds} rounds, unit: {workload.unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"  {'report_s tail':42s} {tail(calls)}")
        print(f"  {'report_s unscaled wall time':42s} {report_s(calls, 'wall_s'):.6g} s "
              f"(median probe {statistics.median(c['probe_s'] for c in calls):.4g} s, "
              f"reference {Calibration.REFERENCE_S} s)")
        print(f"  {'delta_err_max':42s} "
              f"{f'{max(errs):.6g} prob' if errs else 'n/a (no densities)'}")
    else:
        print(f"  {'layer shares of traced time':42s} "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        print(f"  {'prediction':42s} {claim}: "
              f"{'met' if record['prediction_met'] else 'NOT MET'}")
    print(f"  {'ops_failed_frac':42s} {failed / attempted:.6g} ({failed}/{attempted})")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record.update(calls=loop.calls, metrics=metrics)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace == 1:
        tracer.write(str(OUT / f"{stem}-spans.tsv.gz"))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
