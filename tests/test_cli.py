"""End-to-end command-line checks: exit codes, output routing, file round trips."""
from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chebrace import cli, experiments, zeros
from chebrace.experiments import InternalInconsistencyError
from chebrace.groups import MINUS_ONE, ONE


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
     "samples must be at least 2, got 0"),
    (["monotonicity", "--n", "4", "--samples", "-7"],
     "samples must be at least 2, got -7"),
    # the kernel draws samples // 2 antithetic pairs: an odd count would be
    # reported but not drawn
    (["race", "--n", "3", "--pair", "one:minus_one", "--samples", "10001"],
     "samples must be even (antithetic pairs), got 10001"),
    (["horizontal", "--f-values", "1,2", "--samples", "10001"],
     "samples must be even (antithetic pairs), got 10001"),
    (["sandwich", "--count", "2", "--samples", "10001"],
     "samples must be even (antithetic pairs), got 10001"),
    (["monotonicity", "--n", "4", "--samples", "2001"],
     "samples must be even (antithetic pairs), got 2001"),
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
    # the fourth race has no zero below t_max = 1; the first three have some
    (["sandwich", "--count", "4", "--samples", "10000", "--t-max", "1",
      "--seed", "2"], "t_max = 1.0 lies below every sampled zero of psi_1, psi_3"),
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


@pytest.mark.parametrize("argv", [
    ["tower", "--family", "dihedral", "--n", "4", "--seed", "3"],
    ["monotonicity", "--family", "dihedral", "--n", "6", "--samples", "200",
     "--seed", "2"],
], ids=["tower", "monotonicity"])
def test_dihedral_reports_ignore_w(argv, capsys):
    # W is vacuous for the dihedral family: --w -1 reports W = +1, byte for byte
    reports = []
    for w in ("1", "-1"):
        assert cli.main(argv + ["--w", w]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["w_axiom"] == 1


def _exit_code(argv) -> int:
    """cli.main's return value, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


NAN_ZERO_FILE = "# character: psi_1\n1.5\nnan\n"
ZF = "{zero_file}"  # stands for a zero file holding a nan ordinate
DIR = "{dir}"  # stands for a directory


@pytest.mark.parametrize("argv,config,message", [
    (["race"], {"n": "4"}, "n must be an integer, got '4'"),
    (["race"], ["n", 4], "config must be a JSON object"),
    (["race", "--config", DIR], None, "cannot read config"),
    (["race"], {"experiment": "race"}, "unknown config keys: ['experiment']"),
    (["race"], {"epsilon": 0.1}, "unknown config keys: ['epsilon']"),
    (["race"], {"f_values": [1, 2]}, "unknown config keys: ['f_values']"),
    (["race"], {"out": "x.json"}, "unknown config keys: ['out']"),
    (["race"], {"format": "json"}, "unknown config keys: ['format']"),
    (["race"], {"zero_source": "synthetic"},
     "unknown config keys: ['zero_source']"),
    (["race"], {"seed": -1}, "seed must be a non-negative integer, got -1"),
    (["race"], {"w_axiom": True}, "w_axiom must be the integer 1 or -1, got True"),
    (["race"], {"fourier_nodes": 2000}, "unknown config keys: ['fourier_nodes']"),
    (["race"], {"zero_files": [ZF]}, "non-finite ordinate 'nan'"),
    (["race"], {"min_zeros": 1_000_000_000},
     "min_zeros 1000000000 is out of reach for psi_1: its zero horizon "
     "would pass the 2^20 limit"),
    (["tower", "--n", "3", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    (["horizontal", "--seed", "-2"], None,
     "seed must be a non-negative integer, got -2"),
    (["tower", "--seed", "abc"], None,
     "argument --seed: seed must be a non-negative integer, got 'abc'"),
    (["horizontal", "--f-values", "1,x"], None, "bad --f-values"),
    (["race", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    (["race", "--nodes", "2000"], None, "unrecognized arguments: --nodes 2000"),
    (["mod4", "--nodes", "4000"], None, "unrecognized arguments: --nodes 4000"),
    (["race", "--zero-file", ZF], None, "non-finite ordinate 'nan'"),
    (["mod4", "--zero-file", ZF], None, "non-finite ordinate 'nan'"),
])
def test_bad_race_and_mod4_inputs_exit_2(argv, config, message, tmp_path,
                                         capsys):
    zero_file = tmp_path / "nan.txt"
    zero_file.write_text(NAN_ZERO_FILE)
    argv = [a.replace(ZF, str(zero_file)).replace(DIR, str(tmp_path)) for a in argv]
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


@pytest.mark.parametrize("header,cid", [
    ("# character: psi_9\n", "psi_9"),  # the order-8 group has psi_1 alone
    ("# character: psi_x\n", "psi_x"),
    ("", "unknown"),  # a file without the header reads as 'unknown'
])
def test_race_zero_file_for_a_character_the_group_lacks_exits_2(
        header, cid, tmp_path, capsys):
    # before, race ignored such a file and exited 0 on the psi_1 file alone
    psi_1 = tmp_path / "psi_1.txt"
    psi_1.write_text("# character: psi_1\n# T_max: 50\n1.5\n2.5\n3.5\n")
    other = tmp_path / "other.txt"
    other.write_text(f"{header}# T_max: 50\n1.5\n2.5\n3.5\n")
    argv = ["race", "--n", "3", "--pair", "one:minus_one", "--samples", "10000",
            "--zero-file", str(psi_1), "--zero-file", str(other)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{other}: '{cid}' names no irreducible" in captured.err
    # mod4 races one character, whatever its id
    assert cli.main(["mod4", "--zero-file", str(other)]) == 0
    assert json.loads(capsys.readouterr().out)["n_zeros"] == 3


@pytest.mark.parametrize("header,message", [
    ("# log_conductor: -3","log_conductor must be finite and >= 0, got -3.0"),
    ("# log_conductor: nan", "log_conductor must be finite and >= 0, got nan"),
    ("# T_max: inf", "T_max must be finite and positive, got inf"),
    ("# T_max: nan", "T_max must be finite and positive, got nan"),
    ("# T_max: 0", "T_max must be finite and positive, got 0.0"),
])
@pytest.mark.parametrize("argv", [
    ["race", "--n", "3", "--pair", "one:minus_one", "--samples", "10000",
     "--zero-file"],
    ["zeros", "check"],
])
def test_bad_zero_file_headers_exit_2(header, message, argv, tmp_path, capsys):
    # a header out of range would end in a traceback or in NaN report fields
    path = tmp_path / "psi.txt"
    path.write_text(f"# character: psi_1\n# log_conductor: 3\n{header}\n"
                    "1.5\n2.5\n3.5\n")
    assert cli.main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:3: {message}" in captured.err


def test_horizontal_f_beyond_float_range_exits_2(capsys):
    huge = "1" + "0" * 400
    assert cli.main(["horizontal", "--f-values", f"1,{huge}",
                     "--samples", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "f_values must keep log A(psi) = 2 f^3 within float range" in captured.err


_SCIPY_PARTS = ("scipy.integrate", "scipy.special")


def _loaded_parts(code: str, names: tuple[str, ...]) -> str:
    """Which of the modules ``names`` a fresh interpreter has loaded after
    running ``code``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         code + f"; import sys; print(sorted({set(names)!r}"
                " & set(sys.modules)), file=sys.stderr)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip()


def test_cli_import_leaves_scipy_integrate_out():
    # their imports take about 0.3 s and 0.18 s, which every verb would pay
    # at startup
    assert _loaded_parts("import chebrace.cli", _SCIPY_PARTS) == "[]"


def test_table_leaves_scipy_special_out():
    assert _loaded_parts(
        "from chebrace import cli; cli.main(['table', '--id', 'esp-q', '--n', '5'])",
        _SCIPY_PARTS) == "[]"


def test_fourier_and_monte_carlo_verbs_load_no_scipy():
    # the Fourier engine's j0 and i0e are numpy kernels: importing
    # scipy.special would raise a verb's resident set by about 17 MB
    assert _loaded_parts(
        "from chebrace import cli; codes = [cli.main(argv) for argv in ("
        "['tower', '--n', '4'], ['mod4', '--t-max', '8'], "
        "['race', '--n', '5', '--samples', '10000'])]; "
        "assert codes == [0, 0, 0], codes", ("scipy",)) == "[]"


def test_sr_partition_leaves_numpy_ma_out():
    # np.unique imports numpy.ma on its first call; the S/R split below the
    # top level does without it
    assert _loaded_parts(
        "from chebrace.characters import sr_partition; "
        "from chebrace.groups import Group, GroupKind; "
        "sr_partition(Group(GroupKind('quaternion', 6)), 4)", ("numpy.ma",)) == "[]"


def test_bad_inputs_exit_2_under_python_O(tmp_path):
    # no check on these paths is an assert that -O would strip
    config = tmp_path / "race.json"
    config.write_text(json.dumps({"n": "4"}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, message in (
            (["race", "--config", str(config)], "n must be an integer"),
            (["monotonicity", "--epsilon", "-1"], "epsilon must be positive")):
        proc = subprocess.run([sys.executable, "-O", "-m", "chebrace.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr


def test_parser_is_built_once_and_parses_afresh(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["table", "--id", "h8"]) == 0
    first = capsys.readouterr().out
    assert _exit_code(["table", "--id", "mystery"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert cli.main(["table", "--id", "h8"]) == 0
    assert capsys.readouterr().out == first
    # an appended flag starts a fresh list on each parse, and a flag left
    # out is absent, so no parse sees an earlier one's pairs
    parser = cli.build_parser()
    assert parser.parse_args(["race", "--pair", "one:minus_one"]).pairs == ["one:minus_one"]
    assert parser.parse_args(["race", "--pair", "one:flip_even"]).pairs == ["one:flip_even"]
    assert not hasattr(parser.parse_args(["race"]), "pairs")


# each driver verb: its required flags, the dests they set, and its driver
DRIVER_VERBS = [
    ("table", ["--id", "h8"], {"table_id"}, "reproduce_table"),
    ("race", [], set(), "run_race"),
    ("horizontal", [], set(), "horizontal_experiment"),
    ("tower", [], set(), "tower_experiment"),
    ("monotonicity", [], set(), "monotonicity_experiment"),
    ("sandwich", [], set(), "sandwich_experiment"),
    ("mod4", [], set(), "mod4_experiment"),
]
# flags that choose where and how the report is written, not what it holds
OUTPUT_DESTS = {"help", "out", "format", "config"}


@pytest.mark.parametrize("verb,required,dests,driver", DRIVER_VERBS,
                         ids=[v[0] for v in DRIVER_VERBS])
def test_driver_flags_have_no_defaults_and_name_driver_parameters(
        verb, required, dests, driver):
    # a flag left out takes its driver's default: the parse holds none of
    # the driver's arguments but the required ones
    params = set(inspect.signature(getattr(experiments, driver)).parameters)
    parser = cli.build_parser()
    assert set(vars(parser.parse_args([verb, *required]))) & params == dests
    [verbs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in verbs.choices[verb]._actions} - OUTPUT_DESTS
    assert flags and flags <= params, flags - params


STUB_REPORT = {"experiment": "stub", "rows": [{"a": 1}]}


@pytest.mark.parametrize("argv,kwargs", [
    (["table", "--id", "h8"], {"table_id": "h8"}),
    (["race"], {}),
    (["race", "--pair", "one:minus_one", "--w", "1"],
     {"pairs": [(ONE, MINUS_ONE)], "w_axiom": 1}),
    (["horizontal", "--f-values", "1,2"], {"f_values": (1, 2)}),
    (["tower", "--n", "6"], {"n": 6}),
    (["monotonicity", "--t-max", "16"], {"t_max": 16.0}),
    (["sandwich", "--seed", "3"], {"seed": 3}),
    (["mod4"], {}),
], ids=["table", "race", "race-flags", "horizontal", "tower", "monotonicity",
        "sandwich", "mod4"])
def test_verbs_call_the_driver_bound_when_they_run(argv, kwargs, monkeypatch, capsys):
    # the parser is built (and cached) before the driver is patched, as
    # bench/scale.py and the benchmark's tracer patch it; the verb passes
    # the flags given and no others
    parser = cli.build_parser()
    calls = []

    def stub(**given):
        calls.append(given)
        return STUB_REPORT

    driver = {verb: name for verb, _, _, name in DRIVER_VERBS}[argv[0]]
    monkeypatch.setattr(cli, driver, stub)
    assert cli.main(argv) == 0
    assert cli.build_parser() is parser
    assert calls == [kwargs]
    assert json.loads(capsys.readouterr().out) == STUB_REPORT


def test_monotonicity_csv_writes_its_levels(tmp_path, capsys):
    argv = ["monotonicity", "--family", "dihedral", "--n", "5", "--samples", "2",
            "--t-max", "16"]
    assert cli.main(argv) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert cli.main(argv + ["--format", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].split(",") == sorted(levels[0])
    assert [line.split(",")[2] for line in lines[1:]] == [
        str(row["level"]) for row in levels]
    out = tmp_path / "mono.csv"
    assert cli.main(argv + ["--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out), str(out) + ".series.csv"]
    assert out.read_text() == text


def test_csv_of_a_report_without_rows_exits_2(tmp_path, capsys):
    out = tmp_path / "mod4.csv"
    for extra in ([], ["--out", str(out)]):
        assert _exit_code(["mod4", "--format", "csv", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --format csv" in captured.err
    assert not out.exists()
