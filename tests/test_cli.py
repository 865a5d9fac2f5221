"""End-to-end command-line checks: exit codes, output routing, file round trips."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chebrace import cli, experiments, zeros
from chebrace.experiments import InternalInconsistencyError


def test_table_h8_stdout_json(capsys):
    assert cli.main(["table", "--id", "h8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "h8-table"
    assert len(payload["rows"]) == 10


def test_table_csv_format(capsys):
    assert cli.main(["table", "--id", "h8", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert "c1" in header and "mean_symbolic" in header
    assert len(lines) == 11


def test_race_single_pair(capsys):
    code = cli.main(["race", "--family", "quaternion", "--n", "3",
                     "--pair", "one:minus_one", "--samples", "10000",
                     "--seed", "11"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["mean_formula"] == -4
    assert payload["rows"][0]["pass"] is True


def test_race_config_file(tmp_path, capsys):
    config = {"family": "quaternion", "n": 3, "w_axiom": 1,
              "pairs": [["one", "minus_one"]], "samples": 10000, "seed": 4}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(["race", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w_axiom"] == 1
    assert len(payload["rows"]) == 1


def test_race_bad_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["race", "--config", str(path)]) == 2
    assert "bad config JSON" in capsys.readouterr().err


def test_race_bad_pair_syntax(capsys):
    assert cli.main(["race", "--pair", "one-minus_one",
                     "--samples", "10000"]) == 2
    assert "label:label" in capsys.readouterr().err


def test_race_missing_zero_file(capsys):
    code = cli.main(["race", "--zero-file", "/no/such/ordinates.txt",
                     "--samples", "10000"])
    assert code == 2
    assert "zero file" in capsys.readouterr().err


def test_argparse_rejects_unknown_choice():
    with pytest.raises(SystemExit) as err:
        cli.main(["table", "--id", "mystery"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["race", "--n", "four"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["zeros", "gen", "--out", "x.txt"])  # --log-conductor missing
    assert err.value.code == 2


def test_internal_inconsistency_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InternalInconsistencyError("computed and published rows split")

    monkeypatch.setattr(cli, "reproduce_table", boom)
    assert cli.main(["table", "--id", "h8"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_zeros_gen_and_check_round_trip(tmp_path, capsys):
    out = tmp_path / "psi.txt"
    code = cli.main(["zeros", "gen", "--log-conductor", "6.0",
                     "--t-max", "80", "--seed", "3",
                     "--character-id", "psi_1", "--out", str(out)])
    assert code == 0
    gen_line = capsys.readouterr().out
    assert str(out) in gen_line and "ordinates" in gen_line
    assert cli.main(["zeros", "check", str(out)]) == 0
    check_line = capsys.readouterr().out
    assert "psi_1" in check_line and "t_max=80" in check_line


def test_zeros_check_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# character: x\n3.0\n2.0\n")
    assert cli.main(["zeros", "check", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_mod4_missing_file(capsys):
    assert cli.main(["mod4", "--zero-file", "/no/such/file.txt"]) == 2
    assert "file" in capsys.readouterr().err


def test_out_writes_report_and_series(tmp_path, capsys):
    out = tmp_path / "mono.json"
    code = cli.main(["monotonicity", "--family", "dihedral", "--n", "6",
                     "--epsilon", "0.25", "--samples", "4000",
                     "--t-max", "16", "--seed", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out), str(out) + ".series.csv"]
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "monotonicity"
    series = (tmp_path / "mono.json.series.csv").read_text().splitlines()
    assert series[0] == "level,delta_mc"
    assert len(series) == len(payload["levels"]) + 1


@pytest.mark.parametrize("argv", [["tower", "--n", "3"], ["table", "--id", "h8"],
                                  ["zeros", "gen", "--log-conductor", "6"]])
@pytest.mark.parametrize("target,reason", [("missing/x.json", "No such file or directory"),
                                           (".", "Is a directory")])
def test_unwritable_out_exits_2(argv, target, reason, tmp_path, capsys):
    path = tmp_path / target
    assert cli.main(argv + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {path}: {reason}" in captured.err


def test_unwritable_series_file_exits_2(tmp_path, capsys):
    out = tmp_path / "mono.json"
    (tmp_path / "mono.json.series.csv").mkdir()
    assert cli.main(["monotonicity", "--family", "dihedral", "--n", "4",
                     "--samples", "100", "--t-max", "16", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {out}.series.csv: Is a directory" in captured.err


def test_sandwich_cli_smoke(capsys):
    code = cli.main(["sandwich", "--count", "2", "--seed", "2",
                     "--samples", "10000", "--t-max", "32"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["population_bias_above_1"] == 2
    assert payload["success_rate"] == 1.0


@pytest.mark.parametrize("argv", [
    ["table", "--id", "esp-q", "--n", "30"],
    ["table", "--id", "esp-q", "--n", "2"],
    ["table", "--id", "esp-d", "--n", "11"],
    ["tower", "--n", "2"],
    ["tower", "--family", "dihedral", "--n", "13"],
])
def test_out_of_range_n_exits_2_with_a_message(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must satisfy 3 <= n <= " in captured.err


def test_mean_self_check_failure_exits_3(monkeypatch, capsys):
    # mean_table compares every formula mean with the closed form; the
    # check raises rather than asserts, so it also holds under python -O
    from chebrace import races

    monkeypatch.setattr(races, "race_mean_closed_form",
                        lambda *args: 12345)
    assert cli.main(["table", "--id", "esp-q", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closed form 12345 != formula" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["horizontal", "--f-values", "1,2", "--samples", "5000"],
     "samples must be at least 10000, got 5000"),
    (["sandwich", "--count", "2", "--samples", "5000"],
     "samples must be at least 10000, got 5000"),
    (["sandwich", "--count", "0"], "count must be at least 1, got 0"),
    (["monotonicity", "--n", "2"], "n must satisfy 3 <= n <= 20, got 2"),
    (["monotonicity", "--n", "21"], "n must satisfy 3 <= n <= 20, got 21"),
    (["monotonicity", "--n", "4", "--samples", "0"],
     "samples must be at least 2 (one antithetic pair), got 0"),
    (["monotonicity", "--n", "4", "--samples", "-7"],
     "samples must be at least 2 (one antithetic pair), got -7"),
    (["monotonicity", "--n", "4", "--epsilon", "nan"],
     "epsilon must be positive, got nan"),
    (["monotonicity", "--n", "4", "--epsilon", "inf"],
     "epsilon must be finite, got inf"),
])
def test_bad_monte_carlo_inputs_exit_2_with_a_message(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["mod4", "--t-max", "0.5"], "--t-max must be at least 1, got 0.5"),
    (["zeros", "gen", "--log-conductor", "-1"],
     "--log-conductor must be >= 0, got -1.0"),
    (["zeros", "gen", "--log-conductor", "nan"],
     "--log-conductor must be >= 0, got nan"),
    (["zeros", "gen", "--log-conductor", "6", "--degree", "0"],
     "--degree must be at least 1, got 0"),
    (["zeros", "gen", "--log-conductor", "6", "--t-max", "0.5"],
     "--t-max must be at least 1, got 0.5"),
    (["monotonicity", "--n", "4", "--t-max", "0.5"],
     "--t-max must be at least 1, got 0.5"),
    (["sandwich", "--count", "1", "--t-max", "0.5"],
     "--t-max must be at least 1, got 0.5"),
    # horizons below every sampled zero leave no oscillation terms
    (["monotonicity", "--n", "4", "--samples", "100", "--t-max", "1"],
     "t_max = 1.0 lies below every sampled zero of psi_1, psi_3"),
    (["mod4", "--t-max", "1"], "t_max = 1.0 lies below every sampled zero of chi4"),
])
def test_bad_zero_sampling_inputs_exit_2_with_a_message(argv, message, tmp_path,
                                                        capsys):
    out = tmp_path / "psi.txt"
    if argv[0] == "zeros":
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["inf", "1e308", "1048577"])
@pytest.mark.parametrize("argv", [
    ["monotonicity", "--family", "quaternion", "--n", "6", "--w", "-1",
     "--samples", "10", "--seed", "0"],
    ["sandwich", "--count", "1", "--samples", "10000", "--seed", "0"],
    ["mod4", "--seed", "0"],
    ["zeros", "gen", "--log-conductor", "6"],
])
def test_t_max_past_the_horizon_limit_exits_2_before_sampling(argv, t_max, tmp_path,
                                                              monkeypatch, capsys):
    # an unbounded horizon would never finish sampling: refused up front
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_zero_set", no_sampling)
    monkeypatch.setattr(experiments, "sample_zero_set", no_sampling)
    out = tmp_path / "psi.txt"
    if argv[0] == "zeros":
        argv = argv + ["--out", str(out)]
    assert cli.main(argv + ["--t-max", t_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--t-max must be at most 2^20 = 1048576, got {float(t_max)}" in captured.err
    assert not out.exists()


def test_zero_count_past_the_limit_exits_2_before_sampling(tmp_path, monkeypatch,
                                                          capsys):
    # gaps 2 pi / log_c below ulp(t) would stall the sampler for good
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(zeros.np.random, "default_rng", no_sampling)
    out = tmp_path / "z.txt"
    assert cli.main(["zeros", "gen", "--log-conductor", "1e308", "--t-max", "1",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zeros up to t_max = 1.0, past the limit of 2^25 = 33554432" in captured.err
    assert not out.exists()


def test_monotonicity_smallest_sample_count(capsys):
    assert cli.main(["monotonicity", "--family", "dihedral", "--n", "4",
                     "--samples", "2", "--t-max", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 2


def _exit_code(argv) -> int:
    """cli.main's return value, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


NAN_ZERO_FILE = "# character: psi_1\n1.5\nnan\n"
ZF = "{zero_file}"  # stands for a zero file holding a nan ordinate


@pytest.mark.parametrize("argv,config,message", [
    (["race"], {"n": "4"}, "n must be an integer, got '4'"),
    (["race"], {"experiment": "race"}, "unknown config keys: ['experiment']"),
    (["race"], {"epsilon": 0.1}, "unknown config keys: ['epsilon']"),
    (["race"], {"f_values": [1, 2]}, "unknown config keys: ['f_values']"),
    (["race"], {"out": "x.json"}, "unknown config keys: ['out']"),
    (["race"], {"format": "json"}, "unknown config keys: ['format']"),
    (["race"], {"zero_source": "synthetic"},
     "unknown config keys: ['zero_source']"),
    (["race"], {"seed": -1}, "seed must be a non-negative integer, got -1"),
    (["race"], {"fourier_nodes": 0}, "fourier_nodes must be at least 1, got 0"),
    (["race"], {"zero_files": [ZF]}, "non-finite ordinate 'nan'"),
    (["race"], {"min_zeros": 1_000_000_000},
     "min_zeros 1000000000 is out of reach for psi_1: its zero horizon "
     "would pass the 2^20 limit"),
    (["tower", "--n", "3", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    (["horizontal", "--seed", "-2"], None,
     "seed must be a non-negative integer, got -2"),
    (["race", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    (["race", "--nodes", "0"], None, "fourier_nodes must be at least 1, got 0"),
    (["mod4", "--nodes", "0"], None, "nodes must be at least 1, got 0"),
    (["race", "--zero-file", ZF], None, "non-finite ordinate 'nan'"),
    (["mod4", "--zero-file", ZF], None, "non-finite ordinate 'nan'"),
])
def test_bad_race_and_mod4_inputs_exit_2(argv, config, message, tmp_path,
                                         capsys):
    zero_file = tmp_path / "nan.txt"
    zero_file.write_text(NAN_ZERO_FILE)
    argv = [a.replace(ZF, str(zero_file)) for a in argv]
    if config is not None:
        path = tmp_path / "race.json"
        path.write_text(json.dumps(config).replace(ZF, str(zero_file)))
        argv += ["--config", str(path)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    if "ordinate" in message:
        assert f"{zero_file}:3:" in captured.err


@pytest.mark.parametrize("argv,cid", [
    (["mod4"], "chi4"),
    (["race", "--n", "3", "--pair", "one:minus_one", "--samples", "10000"],
     "psi_1"),  # psi_1 is the race's only weighted character
])
def test_zero_file_without_ordinates_exits_2(argv, cid, tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(f"# character: {cid}\n# T_max: 50\n")
    assert cli.main(argv + ["--zero-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "hold" in captured.err
    assert "no ordinates" in captured.err


def _loaded_scipy_parts(code: str) -> str:
    """Which of scipy.integrate and scipy.special a fresh interpreter has
    loaded after running ``code``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "; import sys; print(sorted({'scipy.integrate', 'scipy.special'}"
                " & set(sys.modules)), file=sys.stderr)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip()


def test_cli_import_leaves_scipy_integrate_out():
    # their imports take about 0.3 s and 0.18 s, which every verb would pay
    # at startup; only the Fourier engine loads scipy.special
    assert _loaded_scipy_parts("import chebrace.cli") == "[]"


def test_table_leaves_scipy_special_out():
    assert _loaded_scipy_parts(
        "from chebrace import cli; cli.main(['table', '--id', 'esp-q', '--n', '5'])") == "[]"


def test_bad_inputs_exit_2_under_python_O(tmp_path):
    # no check on these paths is an assert that -O would strip
    config = tmp_path / "race.json"
    config.write_text(json.dumps({"n": "4"}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, message in (
            (["race", "--config", str(config)], "n must be an integer"),
            (["mod4", "--nodes", "0"], "nodes must be at least 1")):
        proc = subprocess.run([sys.executable, "-O", "-m", "chebrace.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr
