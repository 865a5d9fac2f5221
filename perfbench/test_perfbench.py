"""The benchmark's own tests: every workload once at toy size.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import check_report, deltas  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(WORKLOADS[workload].round(3, True, 0))
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for m in want:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace:
        assert "trace.overhead_s" in result["metrics"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(line.split()[:1] == ["ops_failed_frac"] for line in lines)


def test_span_self_times_sum_to_busy_time():
    from chebrace import cli

    tracer = Tracer()
    tracer.install()
    try:
        for run_id, (_, argv) in enumerate(WORKLOADS["tower"].round(3, True, 0)):
            tracer.begin_call(run_id)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            tracer.end_call()
    finally:
        tracer.uninstall()
    spans = tracer.spans_by_name()
    busy = tracer.root_busy_s()
    assert busy == pytest.approx(spans["cli"]["busy_s"], rel=1e-12)
    assert sum(spans[layer]["self_s"] for layer in LAYERS if layer in spans) == \
        pytest.approx(busy, rel=1e-9)
    assert spans["cli.main"]["calls"] == 2
    assert tracer.counts["cyclotomic.values_built"] > 0
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tower_report():
    from chebrace import cli

    argv = WORKLOADS["tower"].round(3, True, 0)[0][1]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return argv, json.loads(buf.getvalue())


def test_check_flags_exact_fields_and_densities():
    argv, report = _tower_report()
    seed_free = " ".join(argv[:-2])
    pinned = {"exact": {seed_free: {"rows": len(report["rows"])}},
              "deltas": {" ".join(argv): deltas("tower", report)}}
    assert check_report(argv, report, pinned) == []

    moved = copy.deepcopy(report)
    row = next(r for r in moved["rows"]
               if r["mean_formula"] != 0 and r["delta_fourier_budget"] > 0)
    row["delta_fourier"] += row["delta_fourier_budget"]  # within both bounds
    assert check_report(argv, moved, pinned) == []
    row["delta_fourier"] += 2 * row["delta_fourier_budget"]
    assert any("reference" in p for p in check_report(argv, moved, pinned))

    loose = copy.deepcopy(report)
    loose["rows"][0]["delta_fourier_budget"] = 1e-3  # estimating less
    assert check_report(argv, loose, {"exact": {}, "deltas": {}})

    short = copy.deepcopy(report)
    short["rows"].pop()
    assert any("exact field" in p for p in check_report(argv, short, pinned))

    unconfirmed = dict(report, all_published_rows_confirmed=False)
    assert check_report(argv, unconfirmed, pinned)
