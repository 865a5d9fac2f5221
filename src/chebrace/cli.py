"""Command-line front end for the race experiments.

Verbs: table, race, horizontal, tower, monotonicity, sandwich, mod4, and
zeros (gen / check).  Reports go to stdout as JSON unless --out is given;
exit codes are 0 on success, 2 for configuration errors, 3 when two
internal computations of the same quantity disagree.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from .experiments import (
    ConfigError,
    InternalInconsistencyError,
    TABLE_IDS,
    check_seed,
    horizontal_experiment,
    mod4_experiment,
    monotonicity_experiment,
    parse_class_label,
    read_zero_file,
    report_csv,
    report_json,
    reproduce_table,
    run_race,
    sandwich_experiment,
    tower_experiment,
    write_report,
)
from .groups import DIHEDRAL, QUATERNION
from .zeros import HORIZON_LIMIT, ZeroCountModel, sample_zero_set, save_zero_file

# a race config holds run_race's keyword arguments, nothing else
RACE_CONFIG_KEYS = tuple(inspect.signature(run_race).parameters)


def _emit(report: dict, args: argparse.Namespace) -> int:
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if out:
        for path in write_report(report, out, fmt):
            print(path)
    elif fmt == "csv":
        sys.stdout.write(report_csv(report))
    else:
        sys.stdout.write(report_json(report))
    return 0


def _parse_pair(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"pair must be 'label:label', got {text!r}")
    return (parse_class_label(parts[0]), parse_class_label(parts[1]))


def _cmd_table(args: argparse.Namespace) -> int:
    return _emit(reproduce_table(args.id, n=args.n), args)


def _race_config(path: str) -> dict:
    """run_race's keyword arguments from a JSON config file; run_race
    checks the values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"bad config JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(RACE_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if "pairs" in data:
        pairs = data["pairs"]
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2
                and all(isinstance(c, str) for c in p) for p in pairs)):
            raise ConfigError(f"pairs must be [[label, label], ...], got {pairs!r}")
        data["pairs"] = [(parse_class_label(a), parse_class_label(b))
                         for a, b in pairs]
    return data


def _cmd_race(args: argparse.Namespace) -> int:
    if args.config:
        kwargs = _race_config(args.config)
    else:
        kwargs = dict(family=args.family, n=args.n, w_axiom=args.w,
                      level=args.level,
                      pairs=[_parse_pair(p) for p in args.pair],
                      seed=args.seed, samples=args.samples,
                      zero_files=args.zero_file)
    return _emit(run_race(**kwargs), args)


def _cmd_horizontal(args: argparse.Namespace) -> int:
    try:
        f_values = tuple(int(x) for x in args.f_values.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --f-values: {exc}") from exc
    return _emit(horizontal_experiment(f_values, args.w, args.seed,
                                       samples=args.samples), args)


def _cmd_tower(args: argparse.Namespace) -> int:
    return _emit(tower_experiment(args.family, args.n, args.w, args.seed), args)


def _check_t_max(t_max: float) -> None:
    """sample_zero_set's horizon range, checked before any work is done."""
    if not t_max >= 1.0:
        raise ConfigError(f"--t-max must be at least 1, got {t_max}")
    if not t_max <= HORIZON_LIMIT:
        raise ConfigError(f"--t-max must be at most 2^20 = 1048576, got {t_max}")


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    _check_t_max(args.t_max)
    return _emit(monotonicity_experiment(args.family, args.n, args.epsilon,
                                         args.w, args.seed,
                                         samples=args.samples,
                                         t_max=args.t_max), args)


def _cmd_sandwich(args: argparse.Namespace) -> int:
    _check_t_max(args.t_max)
    return _emit(sandwich_experiment(count=args.count, seed=args.seed,
                                     samples=args.samples,
                                     t_max=args.t_max), args)


def _cmd_mod4(args: argparse.Namespace) -> int:
    if args.zero_file is None:
        _check_t_max(args.t_max)
    return _emit(mod4_experiment(zero_file=args.zero_file, seed=args.seed,
                                 t_max=args.t_max), args)


def _cmd_zeros_gen(args: argparse.Namespace) -> int:
    if not args.log_conductor >= 0:
        raise ConfigError(f"--log-conductor must be >= 0, got {args.log_conductor}")
    if args.degree < 1:
        raise ConfigError(f"--degree must be at least 1, got {args.degree}")
    _check_t_max(args.t_max)
    model = ZeroCountModel(args.log_conductor, args.degree)
    try:
        zs = sample_zero_set(model, args.t_max, args.seed,
                             character_id=args.character_id)
    except ValueError as exc:  # the zero count limit
        raise ConfigError(str(exc)) from exc
    try:
        save_zero_file(zs, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    print(f"{args.out}: {len(zs)} ordinates up to {zs.t_max}")
    return 0


def _cmd_zeros_check(args: argparse.Namespace) -> int:
    for path in args.paths:
        zs = read_zero_file(path)
        print(f"{path}: {zs.character_id} {len(zs)} ordinates "
              f"t_max={zs.t_max} source={zs.source}")
    return 0


def _seed(text: str) -> int:
    """argparse type of every --seed flag."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        check_seed(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: parsing leaves the parser
    as it was, and the verbs look their drivers up when they run."""
    parser = argparse.ArgumentParser(
        prog="chebrace",
        description="prime-counting races for the two 2-group families")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("table", help="computed-vs-published mean tables")
    p.add_argument("--id", choices=TABLE_IDS, required=True)
    p.add_argument("--n", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("race", help="ad-hoc races over explicit class pairs")
    p.add_argument("--family", choices=(DIHEDRAL, QUATERNION),
                   default=QUATERNION)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--w", type=int, choices=(1, -1), default=-1)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--pair", action="append", default=[],
                   metavar="C1:C2", help="repeatable; default all pairs")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--zero-file", action="append", default=[],
                   help="repeatable; use file-backed ordinates")
    p.add_argument("--config", help="JSON config file overriding all flags")
    _add_common(p)
    p.set_defaults(func=_cmd_race)

    p = sub.add_parser("horizontal",
                       help="order-8 races with growing conductor")
    p.add_argument("--f-values", default="1,2,3,4")
    p.add_argument("--w", type=int, choices=(1, -1), default=-1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(func=_cmd_horizontal)

    p = sub.add_parser("tower", help="classify all pairs against the "
                                     "published tables")
    p.add_argument("--family", choices=(DIHEDRAL, QUATERNION),
                   default=QUATERNION)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--w", type=int, choices=(1, -1), default=-1)
    p.add_argument("--seed", type=_seed, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("monotonicity", help="delta across levels from "
                                            "shared noise")
    p.add_argument("--family", choices=(DIHEDRAL, QUATERNION),
                   default=DIHEDRAL)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--w", type=int, choices=(1, -1), default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=int, default=40_000)
    p.add_argument("--t-max", type=float, default=32.0)
    _add_common(p)
    p.set_defaults(func=_cmd_monotonicity)

    p = sub.add_parser("sandwich", help="tail-bound calibration sweep")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--t-max", type=float, default=64.0)
    _add_common(p)
    p.set_defaults(func=_cmd_sandwich)

    p = sub.add_parser("mod4", help="nonresidues-vs-residues comparison "
                                    "(non-gating)")
    p.add_argument("--zero-file", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--t-max", type=float, default=600.0)
    # JSON only: the report has no row list to write as CSV
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_mod4)

    p = sub.add_parser("zeros", help="synthetic ordinate files")
    zsub = p.add_subparsers(dest="zverb", required=True)
    g = zsub.add_parser("gen", help="sample a synthetic ordinate file")
    g.add_argument("--log-conductor", type=float, required=True)
    g.add_argument("--degree", type=int, default=2)
    g.add_argument("--t-max", type=float, default=64.0)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--character-id", default="unknown")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_zeros_gen)
    c = zsub.add_parser("check", help="validate ordinate files")
    c.add_argument("paths", nargs="+")
    c.set_defaults(func=_cmd_zeros_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
